import warnings

import numpy as np
import pytest

import oracles
from qfilter import channels, states, tolerances, verify


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

    @pytest.mark.parametrize(
        "bad",
        [
            [np.eye(3), np.zeros((3, 3))],
            [np.eye(3), np.full((3, 3), np.nan)],
            [np.zeros((3, 3)), np.full((3, 3), np.inf)],
            [np.eye(3) / 2, np.eye(3) / 2],
        ],
    )
    def test_stacked_check_raises_the_messages_of_one_channel(self, bad):
        # random_instances checks all its channels at once; a bad one mid-stack gets its own message
        with pytest.raises(ValueError) as one:
            channels.validate_channel(bad)
        good = np.stack(counterexample_ops()).astype(complex)
        with pytest.raises(ValueError) as stacked:
            channels._freeze(np.stack([good, np.array(bad, dtype=complex), good]))
        assert str(stacked.value) == str(one.value)

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

    @pytest.mark.parametrize("m", [3, 8, 16])
    def test_engine_block_sums_do_not_depend_on_the_stack_row(self, m):
        rng = np.random.default_rng(m)
        per = np.repeat(rng.random((1, m)), 37, axis=0)
        for part in (channels.trivial_partition(m), channels.random_partition(m, rng, 2)):
            sums = channels._block_sums(per, part)
            assert (sums == sums[0]).all()
            assert np.array_equal(channels._block_sums(per[:1], part)[0], sums[0])
            assert np.abs(sums - per @ oracles.block_indicator(part)).max() <= 1e-15

    @pytest.mark.parametrize("m", [3, 8, 16])
    def test_dense_results_do_not_depend_on_the_stack_row(self, m):
        # every row of a stack of one state gets the bits the state gets alone, in a
        # contiguous stack and in every other row of a larger one (the products run per 2-D slice)
        rng = np.random.default_rng(100 + m)
        for n in (1, 2, 3, 4, 5, 8, 16):
            ch = channels.random_channel(n, m, rng)
            rho = states.random_density(n, n, rng)
            interleaved = np.stack([rho, states.random_density(n, n, rng)] * 37)[::2]
            assert not interleaved.flags.c_contiguous
            for stack in (np.repeat(rho[None], 37, axis=0), interleaved):
                for part in (channels.trivial_partition(m), channels.random_partition(m, rng, 2)):
                    probs, alone = channels.outcome_probs(ch, stack, part), channels.outcome_probs(ch, rho, part)
                    assert np.array_equal(probs, np.broadcast_to(alone, probs.shape))
                    for nu in range(part.num_blocks):
                        states_, used = channels.conditional_update(ch, nu, stack, part)
                        alone, used_alone = channels.conditional_update(ch, nu, rho, part)
                        assert np.array_equal(states_, np.broadcast_to(alone, states_.shape))
                        assert not used.any() and not used_alone
                mapped = channels.apply_channel(ch, stack)
                assert np.array_equal(mapped, np.broadcast_to(channels.apply_channel(ch, rho), mapped.shape))


class TestAcrossInstances:
    """A stack of channels, each with its own states, gives every channel the bits it gets alone."""

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_dense_results_across_instances(self, m):
        rng = np.random.default_rng(200 + m)
        for n in (1, 2, 3, 5, 8):
            chs = [channels.random_channel(n, m, rng) for _ in range(6)]
            ops = np.stack([ch.operators for ch in chs])
            pairs = np.stack([
                [states.random_density(n, int(rng.integers(1, n + 1)), rng) for _ in range(2)] for _ in chs
            ])
            for part in (None, channels.trivial_partition(m), channels.random_partition(m, rng)):
                maps, traces = channels._dense_blocks(ops[:, None], pairs, part)
                for i, ch in enumerate(chs):
                    alone = channels._dense_blocks(ch.operators, pairs[i], part)
                    assert maps[i].tobytes() == alone[0].tobytes()
                    assert traces[i].tobytes() == alone[1].tobytes()
            mapped = channels._kept_blocks(ops, pairs[None, :, 1], [None] * len(chs)).kraus_map()
            for i, ch in enumerate(chs):
                assert mapped[i].tobytes() == channels.apply_channel(ch, pairs[i, 1]).tobytes()

    def test_fallback_rows_take_their_own_channel_across_instances(self):
        # two projective channels in one stack: each row that falls back maps xi with its own channel
        rng = np.random.default_rng(9)
        chs = [channels.validate_channel([np.outer(u, u.conj()) for u in channels.haar_unitary(2, rng).T]) for _ in range(2)]
        ops = np.stack([ch.operators for ch in chs])
        maps, traces = channels._dense_blocks(ops, np.eye(2) / 2)
        maps, traces = maps.copy(), traces.copy()
        traces[:, 1] = 0.0  # block 1 vanished for both states
        out, used = channels._dense_updates(ops, maps[:, 1], traces[:, 1], np.array(1), channels=np.arange(2))
        assert used.tolist() == [True, True]
        for i, ch in enumerate(chs):
            alone, flag = channels.conditional_update(ch, 1, ch.operators[0])  # a state with no weight on block 1
            assert flag
            assert out[i].tobytes() == alone.tobytes()


class TestPerOutcomeKernel:
    """The dense kernel's matrix products against the index-sum oracle."""

    @pytest.mark.parametrize("n, m", [(1, 3), (2, 2), (3, 4), (5, 3), (8, 8), (16, 1), (16, 8)])
    def test_block_maps_and_channel_match_the_oracle(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        ch = channels.random_channel(n, m, rng)
        stack = np.stack([states.random_density(n, int(rng.integers(1, n + 1)), rng) for _ in range(4)])
        parts = (None, channels.singleton_partition(m), channels.trivial_partition(m), channels.random_partition(m, rng))
        for rho in (stack[0], stack, stack[::2]):
            for part in parts:
                maps, traces = channels._dense_blocks(ch.operators, rho, part)
                want = oracles.block_maps(ch.operators, rho, part)
                assert maps.shape == want.shape
                assert np.abs(maps - want).max() <= 1e-14
                assert np.abs(traces - np.trace(want, axis1=-2, axis2=-1).real).max() <= 1e-14
            mapped = channels.apply_channel(ch, rho)
            assert np.abs(mapped - oracles.per_outcome(ch.operators, rho).sum(axis=-3)).max() <= 1e-14


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

    def test_update_checks_probabilities_as_outcome_probs_does(self):
        ch = channels.validate_channel(counterexample_ops())
        for call in (channels.outcome_probs, lambda ch, rho: channels.conditional_update(ch, 0, rho)):
            with pytest.raises(ValueError, match=r"^outcome probabilities sum to 1\.5, not 1$"):
                call(ch, 1.5 * RHO)

    def test_nan_probabilities_raise(self):
        # NaN fails every comparison: the check must still reject it, in the dense kernel and the engine
        ch = channels.validate_channel(counterexample_ops())
        nan = np.full((3, 3), np.nan, dtype=complex)
        calls = [
            lambda: channels.outcome_probs(ch, nan),
            lambda: channels.outcome_probs(ch, np.stack([RHO, nan]), channels.trivial_partition(2)),
            lambda: channels.conditional_update(ch, 0, nan),
            lambda: channels._factor_probs(ch, nan[None]),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="^outcome probabilities are not finite$"):
                    call()

    def test_index_out_of_range(self):
        ch = channels.validate_channel(counterexample_ops())
        with pytest.raises(ValueError, match="block index 2 out of range for 2 blocks"):
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

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 5), (3, 1), (3, 4), (5, 3), (8, 8), (16, 8)])
    def test_first_columns_of_the_full_qr(self, n, m):
        # the thin QR of the Ginibre matrix's first n columns against the full QR of the same draws
        rng = np.random.default_rng(10 * n + m)
        Z = rng.standard_normal((n * m, n * m)) + 1j * rng.standard_normal((n * m, n * m))
        Q, R = np.linalg.qr(Z)
        d = np.diagonal(R)
        want = (Q * (d / np.abs(d)))[:, :n].reshape(m, n, n)
        got = channels.random_channel(n, m, np.random.default_rng(10 * n + m)).operators
        if n * m <= 32:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-15
        # the stacked draws of random_instances give each instance random_channel's bits
        children = np.random.default_rng(n + m).spawn(3)
        stacked = verify.random_instances(n, m, 3, np.random.default_rng(n + m))
        for child, (ch, *_) in zip(children, stacked):
            assert np.array_equal(ch.operators, channels.random_channel(n, m, child).operators)

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
            assert np.abs(acc - oracles.per_outcome(ch.operators, rho).sum(axis=0)).max() < 1e-12


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

    def test_declared_dim_must_match_the_operators(self):
        d = channels.validate_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).to_dict()
        d["dim"] = 3
        with pytest.raises(ValueError, match=r"^channel dict declares dim 3 but operator 0 has shape \(2, 2\)$"):
            channels.channel_from_dict(d)

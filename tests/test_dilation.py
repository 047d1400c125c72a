import json
import math

import numpy as np
import pytest

from qfilter import channels, dilation, measures, states, tolerances, verify

import oracles


def random_instance(rng, n=None, m=None):
    n = n or int(rng.integers(2, 5))
    m = m or int(rng.integers(2, 5))
    ch = channels.random_channel(n, m, rng)
    sigma = states.random_density(n, int(rng.integers(1, n + 1)), rng)
    rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
    return ch, sigma, rho


def projective_channel():
    return channels.validate_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def dense_residuals(ch, sigma, rho, partition):
    """Link residuals (a)-(e) from the dense lift, each block a masked copy."""
    n, m = ch.dim, ch.num_outcomes
    partition = partition or channels.singleton_partition(m)
    psi_sigma, psi_rho = dilation.uhlmann_pair(sigma, rho)
    chi, chi_hat = oracles.dense_lift(ch.operators, psi_rho), oracles.dense_lift(ch.operators, psi_sigma)
    overlap = abs(np.vdot(chi_hat, chi)) ** 2
    probs_rho = channels.outcome_probs(ch, rho, partition)
    probs_sigma = channels.outcome_probs(ch, sigma, partition)

    def project(vec, block):
        v3 = vec.reshape(m, n, n).copy()
        mask = np.zeros(m, dtype=bool)
        mask[list(block)] = True
        v3[~mask] = 0.0
        return v3.reshape(-1)

    def normalized_reduction(vec):
        v3 = vec.reshape(m, n, n) / np.linalg.norm(vec)
        return v3, np.einsum("eqs,eqt->st", v3, v3.conj())

    res_a = res_b = cs_lhs = 0.0
    margin_c = math.inf
    for nu, block in enumerate(partition.blocks):
        proj, proj_hat = project(chi, block), project(chi_hat, block)
        res_a = max(res_a, abs(np.vdot(proj, proj).real - probs_rho[nu]))
        if probs_rho[nu] <= tolerances.ZERO_PROB_TOL:
            continue
        chi_nu, reduced = normalized_reduction(proj)
        update_rho, _ = channels.conditional_update(ch, nu, rho, partition)
        update_sigma, _ = channels.conditional_update(ch, nu, sigma, partition)
        res_b = max(res_b, np.abs(reduced - update_rho).max())
        if probs_sigma[nu] > tolerances.ZERO_PROB_TOL:
            chi_hat_nu, reduced_hat = normalized_reduction(proj_hat)
            res_b = max(res_b, np.abs(reduced_hat - update_sigma).max())
            overlap_nu = abs(np.vdot(chi_hat_nu, chi_nu)) ** 2
            margin_c = min(margin_c, measures.fidelity(update_sigma, update_rho) - overlap_nu)
            cs_lhs += probs_rho[nu] * overlap_nu
    return {
        "a_block_norms": res_a,
        "b_purifications": res_b,
        "c_uhlmann_margin": margin_c,
        "d_cauchy_schwarz": cs_lhs - overlap,
        "e_overlap_vs_fidelity": abs(overlap - measures.fidelity(sigma, rho)),
    }


class TestStinespring:
    """The Kraus stack as the isometry V|phi> = sum_mu (M_mu|phi>) (x) |mu> into S (x) E."""

    def test_counterexample_channel(self):
        ch, _, _ = verify.counterexample_instance()
        V = oracles.isometry(ch.operators)
        assert V.shape == (6, 3)
        assert np.abs(V.conj().T @ V - np.eye(3)).max() < 1e-12
        r = 1 / np.sqrt(2)
        assert np.abs(V - np.vstack([np.diag([1.0, r, 0.0]), np.diag([0.0, r, 1.0])])).max() < 1e-12

    def test_round_trip_exact(self):
        # V†V = I, so V V† is the projector onto the range of V, of rank n
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            ch = channels.random_channel(n, m, rng)
            V = oracles.isometry(ch.operators)
            assert np.abs(V.conj().T @ V - np.eye(n)).max() < 1e-12
            P = V @ V.conj().T
            assert np.abs(P @ P - P).max() < 1e-12
            assert abs(np.trace(P) - n) < 1e-12

    def test_projectors_resolve_identity(self):
        # P_mu V = M_mu (x) |mu>: the outcome projectors split V into the Kraus operators
        rng = np.random.default_rng(2)
        ch = channels.random_channel(2, 3, rng)
        V = oracles.isometry(ch.operators)
        projectors = [oracles.env_projector(2, 3, mu) for mu in range(3)]
        assert np.abs(sum(projectors) - np.eye(6)).max() < 1e-14
        for mu, P in enumerate(projectors):
            assert np.abs(P @ P - P).max() < 1e-14
            for nu in range(mu + 1, 3):
                assert np.abs(P @ projectors[nu]).max() < 1e-14
            want = oracles.tensor(ch.operators[mu], oracles.basis_vector(3, mu)[:, None])
            assert np.abs(P @ V - want).max() < 1e-14

    def test_environment_model_reproduces_block_maps(self):
        # tr_E(P_mu V rho V† P_mu) = M_mu rho M_mu†
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            ch = channels.random_channel(n, m, rng)
            rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
            V = oracles.isometry(ch.operators)
            lifted = V @ rho @ V.conj().T
            for mu in range(m):
                P = oracles.env_projector(n, m, mu)
                block = oracles.partial_trace(P @ lifted @ P, n, m, keep="a")
                want = ch.operators[mu] @ rho @ ch.operators[mu].conj().T
                assert np.abs(block - want).max() < 1e-12

    def test_jump_probabilities_from_projectors(self):
        rng = np.random.default_rng(4)
        ch = channels.random_channel(3, 2, rng)
        rho = states.random_density(3, 3, rng)
        V = oracles.isometry(ch.operators)
        lifted = V @ rho @ V.conj().T
        probs = channels.outcome_probs(ch, rho)
        for mu in range(2):
            p = np.trace(oracles.env_projector(3, 2, mu) @ lifted).real
            assert abs(p - probs[mu]) < 1e-12


class TestUhlmannPair:
    def test_equal_states_have_unit_overlap(self):
        rng = np.random.default_rng(5)
        rho = states.random_density(3, 2, rng)
        a, b = dilation.uhlmann_pair(rho, rho)
        assert abs(abs(np.vdot(a, b)) ** 2 - 1.0) < 1e-12

    def test_counterexample_overlap(self):
        _, sigma, rho = verify.counterexample_instance()
        a, b = dilation.uhlmann_pair(sigma, rho)
        assert abs(abs(np.vdot(a, b)) ** 2 - 0.25) < 1e-12

    def test_overlap_equals_fidelity(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            sigma = states.random_density(n, int(rng.integers(1, n + 1)), rng)
            rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
            a, b = dilation.uhlmann_pair(sigma, rho)
            overlap = abs(np.vdot(a, b)) ** 2
            assert abs(overlap - measures.fidelity(sigma, rho)) < 1e-10

    def test_both_are_purifications(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            sigma = states.random_density(n, int(rng.integers(1, n + 1)), rng)
            rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
            a, b = dilation.uhlmann_pair(sigma, rho)
            assert np.abs(oracles.partial_trace(oracles.pure_projector(a), n, n, "a") - sigma).max() < 1e-12
            assert np.abs(oracles.partial_trace(oracles.pure_projector(b), n, n, "a") - rho).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dilation.uhlmann_pair(np.eye(2) / 2, np.eye(3) / 3)


class TestReplayProof:
    def test_equal_states_all_links_tight(self):
        rng = np.random.default_rng(8)
        ch, _, rho = random_instance(rng)
        rep = dilation.replay_proof(ch, rho, rho)
        assert rep.all_links_hold
        assert rep.link_residuals["a_block_norms"] < 1e-10
        assert rep.link_residuals["b_purifications"] < 1e-10
        assert abs(rep.link_residuals["c_uhlmann_margin"]) < 1e-10
        assert abs(rep.link_residuals["d_cauchy_schwarz"]) < 1e-10
        assert rep.link_residuals["e_overlap_vs_fidelity"] < 1e-10

    def test_counterexample_chain(self):
        ch, sigma, rho = verify.counterexample_instance()
        rep = dilation.replay_proof(ch, sigma, rho)
        assert rep.all_links_hold
        gap = rep.expected_next_fidelity - rep.fidelity_current
        assert abs(gap - 1.0 / 12.0) < 1e-9
        want = verify.measure_gap_report(ch, sigma, rho, "fidelity").lhs
        assert abs(rep.expected_next_fidelity - want) < 1e-12

    def test_random_instances_hold(self):
        rng = np.random.default_rng(9)
        for i in range(100):
            ch, sigma, rho = random_instance(rng)
            part = channels.random_partition(ch.num_outcomes, rng) if i % 2 else None
            rep = dilation.replay_proof(ch, sigma, rho, part)
            assert rep.all_links_hold, (i, rep.link_residuals)

    def test_overlap_unitary_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            ch, sigma, rho = random_instance(rng)
            rep = dilation.replay_proof(ch, sigma, rho)
            assert abs(rep.overlap_initial - rep.cauchy_schwarz_rhs) < 1e-12

    def test_chain_implies_submartingale_gap(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ch, sigma, rho = random_instance(rng)
            rep = dilation.replay_proof(ch, sigma, rho)
            gap = rep.expected_next_fidelity - rep.fidelity_current
            verified = verify.check_fidelity_submartingale(ch, sigma, rho)
            assert abs(gap - verified.gap) < 1e-9
            assert gap >= -1e-9

    def test_chain_sums_the_checked_gap(self):
        # the replay reads the gap check's one-step pass, so its sums are the check's, bit for bit
        rng = np.random.default_rng(16)
        cases = []
        for i in range(30):
            ch, sigma, rho = random_instance(rng)
            m = ch.num_outcomes
            part = (None, channels.trivial_partition(m), channels.random_partition(m, rng))[i % 3]
            cases.append((ch, sigma, rho, part))
        proj = channels.validate_channel([np.diag(np.eye(3)[k]) for k in range(3)])
        rho = states.random_density(3, 3, rng)
        cases.append((projective_channel(), np.diag([0.0, 1.0]), np.diag([0.5, 0.5]), None))
        cases.append((proj, np.diag([0.0, 0.0, 1.0]), rho, channels.make_partition(3, [[2], [0], [1]])))
        for ch, sigma, rho, part in cases:
            rep = dilation.replay_proof(ch, sigma, rho, part)
            checked = verify.check_fidelity_submartingale(ch, sigma, rho, part)
            assert rep.expected_next_fidelity == checked.lhs
            assert rep.fidelity_current == checked.rhs
            assert rep.fallback_blocks == checked.fallback_blocks
        assert rep.fallback_blocks == (1, 2)  # sigma falls back under a permuted partition

    def test_fallback_blocks_flagged(self):
        ch = channels.validate_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        sigma = np.diag([0.0, 1.0])
        rho = np.diag([0.5, 0.5])
        rep = dilation.replay_proof(ch, sigma, rho)
        assert rep.fallback_blocks == (0,)
        assert rep.blocks[0].used_fallback
        assert rep.blocks[0].overlap is None
        assert rep.all_links_hold

    def test_vacuous_margin_serializes_as_null(self):
        # no block has positive probability on both sides, so link (c) is vacuous
        rep = dilation.replay_proof(projective_channel(), np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
        assert rep.link_residuals["c_uhlmann_margin"] == math.inf
        assert rep.all_links_hold
        d = rep.to_dict()
        assert d["link_residuals"]["c_uhlmann_margin"] is None
        assert json.loads(json.dumps(d, allow_nan=False)) == d

    def test_report_serializes(self):
        ch, sigma, rho = verify.counterexample_instance()
        rep = dilation.replay_proof(ch, sigma, rho)
        encoded = json.dumps(rep.to_dict())
        assert "cauchy_schwarz" in encoded


class TestOneProbabilityPerBlock:
    """A block's probability is one number wherever the package reports it."""

    @pytest.mark.parametrize("mode", ["singleton", "trivial", "random"])
    def test_replay_update_and_probs_agree(self, mode):
        rng = np.random.default_rng({"singleton": 21, "trivial": 22, "random": 23}[mode])
        for _ in range(10):
            ch, sigma, rho = random_instance(rng)
            m = ch.num_outcomes
            part = {
                "singleton": channels.singleton_partition(m),
                "trivial": channels.trivial_partition(m),
                "random": channels.random_partition(m, rng),
            }[mode]
            rep = dilation.replay_proof(ch, sigma, rho, part)
            p_rho = channels.outcome_probs(ch, rho, part)
            p_sigma = channels.outcome_probs(ch, sigma, part)
            assert [b.probability for b in rep.blocks] == p_rho.tolist()
            assert [b.probability_estimate for b in rep.blocks] == p_sigma.tolist()
            for nu, block in enumerate(part.blocks):
                if p_rho[nu] <= tolerances.ZERO_PROB_TOL:
                    continue
                block_map = sum(ch.operators[mu] @ rho @ ch.operators[mu].conj().T for mu in block)
                update, used = channels.conditional_update(ch, nu, rho, part)
                assert not used
                assert np.abs(p_rho[nu] * update - block_map).max() <= 1e-15


class TestMatrixFreeLift:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        for i in range(50):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            ch, sigma, rho = random_instance(rng, n, m)
            part = channels.random_partition(m, rng) if i % 2 else None
            for psi in dilation.uhlmann_pair(sigma, rho):
                lifted = dilation._lift(ch.operators, psi)
                assert lifted.shape == (m, n, n)
                assert np.abs(lifted.reshape(-1) - oracles.dense_lift(ch.operators, psi)).max() < 1e-12
            got = dilation.replay_proof(ch, sigma, rho, part).link_residuals
            want = dense_residuals(ch, sigma, rho, part)
            assert got.keys() == want.keys()
            for key in got:
                assert got[key] == want[key] or abs(got[key] - want[key]) < 1e-12, (i, key)

    @pytest.mark.parametrize("n, m", [(1, 3), (3, 2), (16, 8)])
    def test_reductions_match_the_oracle(self, n, m):
        # the lifts' reductions to S: a batched product against the index sum, and
        # each outcome's reduction is that outcome's map of the purified state
        rng = np.random.default_rng(16 + n + m)
        ch, sigma, rho = random_instance(rng, n, m)
        lifts = np.stack([dilation._lift(ch.operators, psi) for psi in dilation.uhlmann_pair(sigma, rho)])
        reduced = dilation._reduce(lifts)
        assert reduced.shape == (2, m, n, n)
        assert np.abs(reduced - oracles.lift_reductions(lifts)).max() <= 1e-14
        assert np.abs(reduced - oracles.per_outcome(ch.operators, np.stack([sigma, rho]))).max() <= 1e-14

    def test_one_dimensional_system(self):
        rng = np.random.default_rng(13)
        ch = channels.random_channel(1, 3, rng)
        rep = dilation.replay_proof(ch, np.eye(1), np.eye(1))
        assert rep.all_links_hold
        assert len(rep.blocks) == 3
        assert abs(rep.expected_next_fidelity - 1.0) < 1e-12
        assert abs(rep.fidelity_current - 1.0) < 1e-12

    def test_unitary_channel_single_block(self):
        rng = np.random.default_rng(14)
        ch = channels.validate_channel([channels.haar_unitary(3, rng)])
        sigma = states.random_density(3, 2, rng)
        rho = states.random_density(3, 3, rng)
        rep = dilation.replay_proof(ch, sigma, rho)
        assert rep.all_links_hold
        assert len(rep.blocks) == 1 and abs(rep.blocks[0].probability - 1.0) < 1e-12
        # a unitary preserves fidelity, so the one block carries no gain
        assert abs(rep.expected_next_fidelity - rep.fidelity_current) < 1e-10

    def test_scales_past_the_dense_lift(self):
        # the dense U (x) I_Q here would be (32^2 * 8)^2 complex entries, 1 GiB
        rng = np.random.default_rng(15)
        ch, sigma, rho = random_instance(rng, 32, 8)
        rep = dilation.replay_proof(ch, sigma, rho, channels.random_partition(8, rng))
        assert rep.all_links_hold, rep.link_residuals
        assert rep.link_residuals["e_overlap_vs_fidelity"] < 1e-10

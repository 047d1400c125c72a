import json
import math

import numpy as np
import pytest

from qfilter import channels, dilation, measures, states, tolerances, verify


def random_instance(rng, n=None, m=None):
    n = n or int(rng.integers(2, 5))
    m = m or int(rng.integers(2, 5))
    ch = channels.random_channel(n, m, rng)
    sigma = states.random_density(n, int(rng.integers(1, n + 1)), rng)
    rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
    return ch, sigma, rho


def projective_channel():
    return channels.validate_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def dense_lift(dil, psi):
    """(U (x) I_Q)(|e0> (x) psi) through the dense extended unitary of side n^2 m."""
    n, m = dil.dim, dil.env_dim
    U4 = dil.unitary.reshape(m, n, m, n)  # [E', S', E, S]
    V = np.einsum("aceg,bf->abcefg", U4, np.eye(n)).reshape(n * n * m, n * n * m)
    return V @ np.kron(dil.reference, psi)


def dense_residuals(ch, sigma, rho, partition):
    """Link residuals (a)-(e) from the dense lift, each block a masked copy."""
    n, m = ch.dim, ch.num_outcomes
    partition = partition or channels.singleton_partition(m)
    dil = dilation.stinespring(ch)
    psi_sigma, psi_rho = dilation.uhlmann_pair(sigma, rho)
    chi, chi_hat = dense_lift(dil, psi_rho), dense_lift(dil, psi_sigma)
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
    def test_unitary_channel_has_trivial_environment(self):
        rng = np.random.default_rng(0)
        U = channels.haar_unitary(3, rng)
        ch = channels.validate_channel([U])
        dil = dilation.stinespring(ch)
        assert dil.env_dim == 1
        assert np.array_equal(dil.unitary, U)

    def test_counterexample_channel(self):
        ch, _, _ = verify.counterexample_instance()
        dil = dilation.stinespring(ch)
        assert dil.unitary.shape == (6, 6)
        assert np.abs(dil.unitary.conj().T @ dil.unitary - np.eye(6)).max() < 1e-12
        assert np.abs(dil.recovered_operators() - ch.operators).max() < 1e-12

    def test_round_trip_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            ch = channels.random_channel(n, m, rng)
            dil = dilation.stinespring(ch)
            assert np.abs(dil.recovered_operators() - ch.operators).max() < 1e-12

    def test_projectors_resolve_identity(self):
        rng = np.random.default_rng(2)
        ch = channels.random_channel(2, 3, rng)
        dil = dilation.stinespring(ch)
        total = sum(dil.projector(mu) for mu in range(3))
        assert np.abs(total - np.eye(6)).max() < 1e-14
        for mu in range(3):
            P = dil.projector(mu)
            assert np.abs(P @ P - P).max() < 1e-14
            for nu in range(mu + 1, 3):
                assert np.abs(P @ dil.projector(nu)).max() < 1e-14

    def test_environment_model_reproduces_block_maps(self):
        # tr_E(P_mu U (rho (x) |e0><e0|) U† P_mu) = M_mu rho M_mu†
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            ch = channels.random_channel(n, m, rng)
            rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
            dil = dilation.stinespring(ch)
            e0_proj = states.pure_projector(dil.reference)
            lifted = dil.unitary @ states.tensor(rho, e0_proj) @ dil.unitary.conj().T
            for mu in range(m):
                P = dil.projector(mu)
                block = states.partial_trace(P @ lifted @ P, n, m, keep="a")
                want = ch.operators[mu] @ rho @ ch.operators[mu].conj().T
                assert np.abs(block - want).max() < 1e-12

    def test_jump_probabilities_from_projectors(self):
        rng = np.random.default_rng(4)
        ch = channels.random_channel(3, 2, rng)
        rho = states.random_density(3, 3, rng)
        dil = dilation.stinespring(ch)
        e0_proj = states.pure_projector(dil.reference)
        lifted = dil.unitary @ states.tensor(rho, e0_proj) @ dil.unitary.conj().T
        probs = channels.outcome_probs(ch, rho)
        for mu in range(2):
            p = np.trace(dil.projector(mu) @ lifted).real
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
            assert np.abs(states.partial_trace(states.pure_projector(a), n, n, "a") - sigma).max() < 1e-12
            assert np.abs(states.partial_trace(states.pure_projector(b), n, n, "a") - rho).max() < 1e-12

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
        want = verify.expected_next_measure(ch, sigma, rho, "fidelity")
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


class TestMatrixFreeLift:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        for i in range(50):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            ch, sigma, rho = random_instance(rng, n, m)
            part = channels.random_partition(m, rng) if i % 2 else None
            dil = dilation.stinespring(ch)
            for psi in dilation.uhlmann_pair(sigma, rho):
                lifted = dil.lift(psi)
                assert lifted.shape == (m, n, n)
                assert np.abs(lifted.reshape(-1) - dense_lift(dil, psi)).max() < 1e-12
            got = dilation.replay_proof(ch, sigma, rho, part).link_residuals
            want = dense_residuals(ch, sigma, rho, part)
            assert got.keys() == want.keys()
            for key in got:
                assert got[key] == want[key] or abs(got[key] - want[key]) < 1e-12, (i, key)

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

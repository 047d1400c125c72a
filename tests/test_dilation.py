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


def amplitudes(psi):
    """The amplitude matrices A[s, q] of purifications psi on S (x) Q, S index fastest: one or a stack."""
    n = math.isqrt(psi.shape[-1])
    return psi.reshape(psi.shape[:-1] + (n, n)).swapaxes(-1, -2)


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
        assert abs(rep.expected_next_fidelity - 1.0 / 3.0) <= 1e-15
        assert abs(rep.fidelity_current - 0.25) <= 1e-15
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
        # the replay reads the gap check's one-step pass for its probabilities and fallback flags
        # and takes its fidelities in factor form, so its sums are the check's within round-off
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
            assert abs(rep.expected_next_fidelity - checked.lhs) <= 1e-12
            assert abs(rep.fidelity_current - checked.rhs) <= 1e-12
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
                lifted = dilation._lift(ch.operators, amplitudes(psi))
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
        lifts = dilation._lift(ch.operators, amplitudes(np.array(dilation.uhlmann_pair(sigma, rho))))
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


def old_route(ch, sigma, rho, partition):
    """The replay on the dense route, as it was composed before the factor form: the public
    uhlmann_pair (make_density on both states, one stacked square root of [sigma, rho]), the
    one-step pass with the registered "fidelity" measure, which square-roots every dense update
    and both states, then the links on the lifts of that pair."""
    psi_sigma, psi_rho = dilation.uhlmann_pair(sigma, rho)
    [step], _ = verify._one_step(ch.operators[None], sigma[None], rho[None], verify.MEASURES["fidelity"], [partition])
    kept, probs_rho, probs_sigma = step.kept, step.probs, step.probs_sigma
    lifts = dilation._lift(ch.operators, amplitudes(np.array([psi_sigma, psi_rho])))
    reduced = dilation._reduce(lifts)
    inner = np.einsum("eqs,eqs->e", lifts[0].conj(), lifts[1])
    overlap_lifted = float(abs(inner.sum()) ** 2)
    norms = channels._block_sums(np.trace(reduced, axis1=-2, axis2=-1).real, partition)
    block_reduced = channels._block_sums(reduced, partition, axis=-3)[:, kept]
    live = probs_sigma[kept] > tolerances.ZERO_PROB_TOL
    both = kept[live]
    res_a = float(np.abs(norms[1] - probs_rho).max())
    res_b = float(np.abs(block_reduced[1] / norms[1, kept, None, None] - step.rho_next).max())
    if both.size:
        sigma_red = block_reduced[0, live] / norms[0, both, None, None]
        res_b = max(res_b, float(np.abs(sigma_red - step.sigma_next[live]).max()))
    overlaps = np.abs(channels._block_sums(inner, partition)[both]) ** 2 / (norms[0, both] * norms[1, both])
    margin_c = float((step.values[live] - overlaps).min()) if both.size else math.inf
    cs_lhs = float(sum(probs_rho[both] * overlaps))
    fidelity_of = dict(zip(kept.tolist(), step.values.tolist()))
    overlap_of = dict(zip(both.tolist(), overlaps.tolist()))
    residuals = {
        "a_block_norms": res_a,
        "b_purifications": res_b,
        "c_uhlmann_margin": margin_c,
        "d_cauchy_schwarz": cs_lhs - overlap_lifted,
        "e_overlap_vs_fidelity": abs(overlap_lifted - step.rhs),
    }
    tol = tolerances.GAP_TOL
    holds = {
        "a_block_norms": res_a <= tol,
        "b_purifications": res_b <= tol,
        "c_uhlmann_margin": margin_c >= -tol,
        "d_cauchy_schwarz": residuals["d_cauchy_schwarz"] >= -tol,
        "e_overlap_vs_fidelity": residuals["e_overlap_vs_fidelity"] <= tolerances.OVERLAP_TOL,
    }
    return dilation.ProofReplayReport(
        overlap_initial=float(abs(np.vdot(psi_sigma, psi_rho)) ** 2),
        blocks=[
            dilation.BlockReplay(nu, p, q, overlap_of.get(nu), fidelity_of.get(nu), nu in step.fallback_blocks)
            for nu, (p, q) in enumerate(zip(probs_rho.tolist(), probs_sigma.tolist()))
        ],
        cauchy_schwarz_lhs=cs_lhs,
        cauchy_schwarz_rhs=overlap_lifted,
        fidelity_current=step.rhs,
        expected_next_fidelity=step.lhs,
        link_residuals=residuals,
        links_hold=holds,
        all_links_hold=all(holds.values()),
        fallback_blocks=step.fallback_blocks,
    )


def assert_reports_agree(got, want, tol=1e-12):
    """Every float field of two replays within tol; the verdicts, the fallback blocks, the block
    list and both probability vectors bit for bit."""
    assert (got.links_hold, got.all_links_hold, got.fallback_blocks) == (want.links_hold, want.all_links_hold, want.fallback_blocks)
    for g, w in zip(got.blocks, want.blocks, strict=True):
        assert (g.block, g.probability, g.probability_estimate, g.used_fallback) == (w.block, w.probability, w.probability_estimate, w.used_fallback)
        assert (g.overlap is None, g.fidelity is None) == (w.overlap is None, w.fidelity is None)
        for a, b in ((g.overlap, w.overlap), (g.fidelity, w.fidelity)):
            assert a is None or abs(a - b) <= tol
    floats = [
        (got.overlap_initial, want.overlap_initial), (got.fidelity_current, want.fidelity_current),
        (got.expected_next_fidelity, want.expected_next_fidelity),
        (got.cauchy_schwarz_lhs, want.cauchy_schwarz_lhs), (got.cauchy_schwarz_rhs, want.cauchy_schwarz_rhs),
    ]
    floats += [(got.link_residuals[k], want.link_residuals[k]) for k in want.link_residuals]
    for a, b in floats:
        assert a == b or abs(a - b) <= tol, (a, b)


def fallback_instance(rng, n, m):
    """A channel U P_mu of m projectors onto disjoint basis groups, a sigma inside the first
    group's range and a full-rank rho: every other block vanishes for sigma and falls back."""
    groups = np.array_split(rng.permutation(n), m)
    U = channels.haar_unitary(n, rng)
    ch = channels.validate_channel([U @ np.diag(np.isin(np.arange(n), g).astype(float)) for g in groups])
    G = np.zeros((n, n), dtype=complex)
    G[groups[0], :] = rng.standard_normal((len(groups[0]), n)) + 1j * rng.standard_normal((len(groups[0]), n))
    sigma = G @ G.conj().T
    return ch, sigma / np.trace(sigma).real, states.random_density(n, n, rng)


def replay_instances():
    """321 instances: n, m in 1..6, partitions None, singleton, trivial and random, rank-1 and
    rank-deficient states, sigma-vanishing blocks that fall back, and the counter-example."""
    rng = np.random.default_rng(31)
    for i in range(320):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        if i % 5 == 4 and 2 <= m <= n:
            ch, sigma, rho = fallback_instance(rng, n, m)
        else:
            ch = channels.random_channel(n, m, rng)
            # rank 1 every third instance, otherwise any rank
            sigma, rho = (states.random_density(n, 1 if i % 3 == 0 else int(rng.integers(1, n + 1)), rng)
                          for _ in range(2))
        part = (None, channels.singleton_partition(m), channels.trivial_partition(m),
                channels.random_partition(m, rng))[i % 4]
        yield ch, sigma, rho, part
    yield (*verify.counterexample_instance(), None)


def near_null_instances(count, rng):
    """(channel, sigma, rho, partition): a projective channel of m <= n projectors onto groups of a
    Haar basis, and an estimate whose block-0 probability is in [1e-12, 1e-8], whose dense update
    of that block is not positive semidefinite in floating point."""
    for _ in range(count):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, n + 1))
        basis = channels.haar_unitary(n, rng)
        labels = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
        rng.shuffle(labels)
        ch = channels.validate_channel([basis[:, labels == k] @ basis[:, labels == k].conj().T for k in range(m)])
        inside, outside = basis[:, labels == 0], basis[:, labels != 0]
        eps = 10.0 ** rng.uniform(-12.0, -8.0)
        a = inside @ states.random_density(inside.shape[1], 1, rng) @ inside.conj().T
        k = outside.shape[1]
        b = outside @ states.random_density(k, int(rng.integers(1, k + 1)), rng) @ outside.conj().T
        rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
        yield ch, (1.0 - eps) * b + eps * a, rho, channels.random_partition(m, rng) if rng.integers(2) else None


class TestReplayReadsThePassRoots:
    """The replay reads the one-step pass for its probabilities, dense updates and fallback flags,
    and takes its fidelities and its Uhlmann pair from one factorisation of [sigma, rho]; the dense
    route, uhlmann_pair and the registered fidelity, is its oracle."""

    def test_replay_matches_the_old_route_within_round_off(self):
        fell_back = 0
        for ch, sigma, rho, part in replay_instances():
            channels._pass_memo.clear()
            got = dilation.replay_proof(ch, sigma, rho, part)
            channels._pass_memo.clear()
            assert_reports_agree(got, old_route(ch, sigma, rho, part))
            checked = verify.check_fidelity_submartingale(ch, sigma, rho, part)
            assert abs(got.expected_next_fidelity - checked.lhs) <= 1e-12
            assert abs(got.fidelity_current - checked.rhs) <= 1e-12
            fell_back += bool(got.fallback_blocks)
        assert fell_back >= 20

    def test_replay_bits_alone_and_after_a_kept_pass(self):
        # a replay that finds its pass kept by a gap check gives the bits of one that forms it
        for ch, sigma, rho, part in replay_instances():
            channels._pass_memo.clear()
            alone = repr(dilation.replay_proof(ch, sigma, rho, part).to_dict())
            channels._pass_memo.clear()
            verify.check_fidelity_submartingale(ch, sigma, rho, part)
            [(_, _, kept)] = channels._pass_memo
            assert repr(dilation.replay_proof(ch, sigma, rho, part).to_dict()) == alone
            [(_, _, read)] = channels._pass_memo
            assert read is kept  # the replay read the check's pass and formed none

    def test_near_null_blocks_give_a_report(self):
        # the dense route raised "not positive semidefinite" on 64 of these 400 instances, from
        # the square root of sigma's near-null update; the factor route has no such root
        for ch, sigma, rho, part in near_null_instances(400, np.random.default_rng(3)):
            rep = dilation.replay_proof(ch, sigma, rho, part)
            holds = rep.links_hold
            assert holds["a_block_norms"] and holds["c_uhlmann_margin"], rep.link_residuals
            assert holds["d_cauchy_schwarz"] and holds["e_overlap_vs_fidelity"], rep.link_residuals
            # the margin of link (c) compares the fidelity and the overlap of the same lifted
            # blocks, so it is >= 0 at the exact-identity tier, not only at link_tol
            assert rep.link_residuals["c_uhlmann_margin"] >= -1e-12
            # link (b) is not asserted: it compares the lifts' reductions with the dense update
            # M sigma M† / p, whose relative error near p = 1e-12 is about 1e-16 / p, so it fails
            # on 244 of these instances, with residuals up to 7.8e-5

    @staticmethod
    def invalid(kind):
        ch, sigma, rho = random_instance(np.random.default_rng(4), n=3, m=2)
        if kind == "stack":
            return ch, np.stack([sigma, sigma]), rho, r"^sigma has shape \(2, 3, 3\), expected \(3, 3\) for the channel$"
        if kind == "non-square":
            return ch, sigma, rho[:, :2], r"^rho has shape \(3, 2\), expected \(3, 3\) for the channel$"
        if kind == "mismatched n":
            return ch, np.eye(2) / 2, rho, r"^sigma has shape \(2, 2\), expected \(3, 3\) for the channel$"
        if kind == "nan":
            rho = rho.copy()
            rho[0, 1] = rho[1, 0] = np.nan
            return ch, sigma, rho, "^matrix has non-finite entries$"
        if kind == "non-hermitian":
            return ch, sigma + 0.1j * np.triu(np.ones((3, 3)), 1), rho, r"^matrix is not Hermitian: max\|A - A†\| = 1.000e-01"
        if kind in ("trace above", "trace below"):
            return ch, sigma, rho * (1 + 1e-8 if kind == "trace above" else 1 - 1e-8), "^density matrix must have unit trace, got "
        # trace one, one eigenvalue -1e-6: the factorisation of [sigma, rho] names rho and its own eigenvalue
        return ch, sigma, np.diag([0.5 + 1e-6, 0.5, -1e-6]), r"^matrix is not positive semidefinite: eigenvalue -1\.000e-06 < -1\.0e-10 \(rho\)$"

    @pytest.mark.parametrize("kind", [
        "stack", "non-square", "mismatched n", "nan", "non-hermitian", "trace above", "trace below", "negative eigenvalue",
    ])
    def test_replay_rejects_what_make_density_rejected(self, kind):
        ch, sigma, rho, message = self.invalid(kind)
        with pytest.raises(ValueError):
            dilation.uhlmann_pair(sigma, rho)  # the old route's validation: make_density on each state
        with pytest.raises(ValueError, match=message):
            dilation.replay_proof(ch, sigma, rho)

    def test_a_non_psd_sigma_is_named(self):
        ch, _, rho = random_instance(np.random.default_rng(4), n=3, m=2)
        sigma = np.diag([0.5 + 2e-6, 0.5, -2e-6])
        with pytest.raises(ValueError, match=r"eigenvalue -2\.000e-06 < -1\.0e-10 \(sigma\)$"):
            dilation.replay_proof(ch, sigma, rho)


def replay_terms(rep):
    """The replay's numbers the setting's symmetries keep: E[F'], F, the margin of link (c), the
    Cauchy-Schwarz sum, and each block's fidelity and overlap (None where a block has none)."""
    head = [rep.expected_next_fidelity, rep.fidelity_current, rep.link_residuals["c_uhlmann_margin"], rep.cauchy_schwarz_lhs]
    return head + [b.fidelity for b in rep.blocks] + [b.overlap for b in rep.blocks]


def invariance_instances(seed, count=60):
    """(channel, sigma, rho, partition, rng): n in 2..4, m in 2..5, random partitions with coarse
    blocks, states of random rank."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ch, sigma, rho = random_instance(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        yield ch, sigma, rho, channels.random_partition(ch.num_outcomes, rng), rng


class TestReplayInvariances:
    """The replay's terms under the symmetries of the setting, at the exact-identity tier."""

    @staticmethod
    def assert_same_terms(got, want):
        for a, b in zip(replay_terms(got), replay_terms(want), strict=True):
            assert (a is None) == (b is None)
            assert a is None or abs(a - b) <= 1e-12, (a, b)

    def test_kraus_gauge_within_blocks(self):
        # M'_mu = sum_{nu in block} W_{mu nu} M_nu with W Haar: the same block maps, so the same replay
        for ch, sigma, rho, part, rng in invariance_instances(71):
            ops = ch.operators.copy()
            for block in part.blocks:
                ops[list(block)] = np.einsum("ij,jab->iab", channels.haar_unitary(len(block), rng), ch.operators[list(block)])
            gauged = channels.validate_channel(ops)
            self.assert_same_terms(dilation.replay_proof(gauged, sigma, rho, part), dilation.replay_proof(ch, sigma, rho, part))

    def test_unitary_covariance(self):
        # M -> U M U† and both states -> U . U†
        for ch, sigma, rho, part, rng in invariance_instances(72):
            U = channels.haar_unitary(ch.dim, rng)
            turned = channels.validate_channel(U @ ch.operators @ U.conj().T)
            got = dilation.replay_proof(turned, U @ sigma @ U.conj().T, U @ rho @ U.conj().T, part)
            self.assert_same_terms(got, dilation.replay_proof(ch, sigma, rho, part))

    def test_idle_ancilla(self):
        # M (x) I_2 with sigma (x) tau and rho (x) tau, the system index fastest
        for ch, sigma, rho, part, rng in invariance_instances(73):
            tau = states.random_density(2, 2, rng)
            wide = channels.validate_channel([np.kron(np.eye(2), M) for M in ch.operators])
            got = dilation.replay_proof(wide, np.kron(tau, sigma), np.kron(tau, rho), part)
            self.assert_same_terms(got, dilation.replay_proof(ch, sigma, rho, part))

    def test_outcome_relabelling(self):
        # outcome mu becomes pi(mu), and the partition's blocks list the relabelled outcomes
        for ch, sigma, rho, part, rng in invariance_instances(74):
            pi = rng.permutation(ch.num_outcomes)
            ops = np.empty_like(ch.operators)
            ops[pi] = ch.operators
            relabelled = channels.make_partition(ch.num_outcomes, [[pi[mu] for mu in block] for block in part.blocks])
            got = dilation.replay_proof(channels.validate_channel(ops), sigma, rho, relabelled)
            self.assert_same_terms(got, dilation.replay_proof(ch, sigma, rho, part))
